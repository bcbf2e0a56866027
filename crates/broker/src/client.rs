//! Publisher and subscriber client handles.
//!
//! Clients know their one-way latency towards every region (measured out
//! of band; here supplied up front) and the address of each region's
//! broker. They track per-topic configurations pushed by the brokers
//! ([`Frame::ConfigUpdate`]) and re-steer automatically:
//!
//! * a **subscriber** keeps each topic subscribed at the *closest serving
//!   region*, resubscribing (make-before-break) when a reconfiguration
//!   changes that region;
//! * a **publisher** sends each publication to *all* serving regions under
//!   direct delivery, or only to its closest serving region under routed
//!   delivery.
//!
//! Topics with no installed configuration yet are treated as served by all
//! regions with routed delivery, matching the brokers' bootstrap default.
//!
//! ## Fault tolerance
//!
//! Sessions survive broker restarts (see [`crate::session`]):
//!
//! * a **subscriber** that loses a connection re-dials it with
//!   exponential backoff + decorrelated jitter and *replays its Subscribe
//!   set* for every topic homed at that region the moment the link is
//!   back;
//! * a **publisher** that finds every serving region unreachable buffers
//!   the publication in a bounded FIFO instead of erroring, then flushes
//!   it — re-resolving the serving set against the latest configuration —
//!   once a broker answers again;
//! * with [`ClientConfig::keepalive`] set, every connection sends
//!   [`Frame::Ping`] heartbeats so broker-side idle reaping never culls a
//!   healthy but quiet client.

use crate::broker::InstalledConfig;
use crate::conn::{read_frame, BrokerError};
use crate::delay::{duration_from_ms, Outbound};
use crate::flow::SlowConsumerPolicy;
use crate::frame::{Frame, Role, TraceContext, WireMode};
use crate::qos::{DedupWindow, DEFAULT_DEDUP_WINDOW};
use crate::session::{Backoff, PendingPublish, PendingQueue, ReconnectPolicy};
use crate::sync::Mutex;
use bytes::{Bytes, BytesMut};
use multipub_core::ids::RegionId;
use multipub_filter::{Headers, Predicate};
use multipub_proto::TopicView;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tokio::net::TcpStream;
use tokio::sync::mpsc;

/// Connection settings shared by publishers and subscribers.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// This client's id (unique per deployment).
    pub client_id: u64,
    /// Broker address per region, indexed by region id.
    pub region_addrs: Vec<SocketAddr>,
    /// One-way latency towards each region, milliseconds. Drives the
    /// "closest region" choice; leave empty for all-zero (first region
    /// wins ties).
    pub latencies_ms: Vec<f64>,
    /// When `true`, the client delays its own outbound frames by
    /// `latencies_ms[region]`, emulating its WAN uplink on loopback.
    pub emulate_wan: bool,
    /// Backoff policy for re-dialing lost connections.
    pub reconnect: ReconnectPolicy,
    /// Heartbeat interval: when set, every connection sends
    /// [`Frame::Ping`] at this cadence so idle-deadline brokers keep it
    /// alive. `None` (the default) sends no heartbeats.
    pub keepalive: Option<Duration>,
    /// Maximum number of publications a publisher buffers while every
    /// serving region is unreachable (oldest evicted first).
    pub publish_buffer: usize,
    /// Slow-consumer policy this client requests for its own broker-side
    /// outbound queue (subscribers only; `None` accepts the broker's
    /// default). See [`SlowConsumerPolicy`].
    pub slow_consumer: Option<SlowConsumerPolicy>,
    /// Fraction of publications to trace end to end (`0.0` = never, the
    /// default; `1.0` = every publication). Sampled publications carry a
    /// [`TraceContext`] on the wire and every hop records per-stage spans
    /// into the process-local trace ring.
    pub trace_sample: f64,
    /// Topics carried with at-least-once (QoS 1) delivery. Publications
    /// on these topics are sequenced, acked by the broker and
    /// retransmitted until acked; subscriptions on them request
    /// broker-side redelivery buffering. Everything else is
    /// fire-and-forget (QoS 0).
    pub qos1_topics: Vec<String>,
}

impl ClientConfig {
    /// A configuration with no latency information, no WAN emulation, the
    /// default reconnect policy, no keepalive, and a 1024-entry publish
    /// buffer.
    pub fn new(client_id: u64, region_addrs: Vec<SocketAddr>) -> Self {
        ClientConfig {
            client_id,
            region_addrs,
            latencies_ms: Vec::new(),
            emulate_wan: false,
            reconnect: ReconnectPolicy::default(),
            keepalive: None,
            publish_buffer: 1024,
            slow_consumer: None,
            trace_sample: 0.0,
            qos1_topics: Vec::new(),
        }
    }

    /// The delivery QoS configured for `topic`: `1` when listed in
    /// [`ClientConfig::qos1_topics`], else `0`.
    pub fn qos_for(&self, topic: &str) -> u8 {
        u8::from(self.qos1_topics.iter().any(|t| t == topic))
    }

    fn latency(&self, region: usize) -> f64 {
        self.latencies_ms.get(region).copied().unwrap_or(0.0)
    }

    fn validate(&self) -> Result<(), BrokerError> {
        if self.region_addrs.is_empty() {
            return Err(BrokerError::UnknownRegion { region: 0 });
        }
        Ok(())
    }
}

/// A publication received by a subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The topic the publication was sent on.
    pub topic: String,
    /// The publishing client's id.
    pub publisher: u64,
    /// Publisher-side timestamp, microseconds since the Unix epoch.
    pub publish_micros: u64,
    /// Receipt timestamp, microseconds since the Unix epoch.
    pub received_micros: u64,
    /// Content headers the publication carried (empty when none).
    pub headers: Headers,
    /// Message payload.
    pub payload: Bytes,
    /// Trace context the delivery arrived with (`None` when the
    /// publication was not sampled).
    pub trace: Option<TraceContext>,
    /// Delivery QoS the publication was sent with (`1` = at-least-once).
    pub qos: u8,
    /// Per-publisher sequence number (`0` for unsequenced QoS 0 traffic).
    pub seq: u64,
    /// `true` when this is a retained last-value replay rather than a
    /// live publication.
    pub retained: bool,
}

impl Delivery {
    /// End-to-end delivery time in milliseconds (meaningful when publisher
    /// and subscriber clocks agree, e.g. on one host).
    pub fn latency_ms(&self) -> f64 {
        (self.received_micros.saturating_sub(self.publish_micros)) as f64 / 1000.0
    }
}

#[derive(Debug)]
enum Event {
    Delivery(Delivery),
    Config {
        topic: String,
    },
    Disconnected {
        region: u16,
    },
    /// A backoff timer fired: time to attempt a reconnect to `region`.
    ReconnectDue {
        region: u16,
    },
    /// The broker refused a publication with a [`Frame::Busy`] NACK.
    Busy {
        retry_after_ms: u32,
        /// Sequence of the refused QoS 1 publication (`0` for QoS 0).
        seq: u64,
    },
    /// The broker acked a QoS 1 publication.
    PubAck {
        seq: u64,
    },
}

/// Capacity of the per-client internal event channel (deliveries, config
/// updates, disconnect notices). Bounded so a stalled application
/// backpressures the reader task instead of growing the queue without
/// limit.
const EVENT_CHANNEL_CAPACITY: usize = 1024;

/// Capacity of the subscriber's application→actor command channel.
const COMMAND_CHANNEL_CAPACITY: usize = 64;

/// Per-region connection management shared by both client kinds.
#[derive(Debug)]
struct Links {
    config: ClientConfig,
    role: Role,
    conns: HashMap<u16, Outbound>,
    topic_configs: Arc<Mutex<HashMap<String, TopicView>>>, // lock:rank(client.topic_configs, 60)
    events_tx: mpsc::Sender<Event>,
    /// Regions connected at least once — a later connect is a *re*connect.
    ever_connected: std::collections::HashSet<u16>,
    /// When each currently-dead region was first seen down, for the
    /// reconnect-duration histogram.
    disconnected_at: HashMap<u16, std::time::Instant>,
}

impl Links {
    fn new(config: ClientConfig, role: Role, events_tx: mpsc::Sender<Event>) -> Self {
        Links {
            config,
            role,
            conns: HashMap::new(),
            topic_configs: Arc::new(Mutex::new(60, "client.topic_configs", HashMap::new())),
            events_tx,
            ever_connected: std::collections::HashSet::new(),
            disconnected_at: HashMap::new(),
        }
    }

    /// Drops a dead handle and stamps the outage start (first notice
    /// wins), so the next [`Links::connect`] reconnects and reports how
    /// long the region was gone.
    fn mark_disconnected(&mut self, region: u16) {
        self.conns.remove(&region);
        self.disconnected_at.entry(region).or_insert_with(std::time::Instant::now);
    }

    fn n_regions(&self) -> usize {
        self.config.region_addrs.len()
    }

    /// The configuration to use for `topic`: installed, or the all-regions
    /// routed bootstrap default.
    fn config_for(&self, topic: &str) -> InstalledConfig {
        let committed = self.topic_configs.lock().get(topic).and_then(TopicView::committed);
        let all = if self.n_regions() >= 32 { u32::MAX } else { (1u32 << self.n_regions()) - 1 };
        committed.unwrap_or(InstalledConfig::unplaced(all))
    }

    /// The closest region among the serving set of `mask`.
    fn closest_serving(&self, mask: u32) -> u16 {
        let mut best: Option<(f64, u16)> = None;
        for region in 0..self.n_regions() as u16 {
            if mask & (1u32 << region) == 0 {
                continue;
            }
            let lat = self.config.latency(region as usize);
            if best.is_none_or(|(b, _)| lat < b) {
                best = Some((lat, region));
            }
        }
        best.map(|(_, r)| r).unwrap_or(0)
    }

    /// Returns the outbound handle for a region, connecting on demand.
    async fn connect(&mut self, region: u16) -> Result<Outbound, BrokerError> {
        if let Some(out) = self.conns.get(&region) {
            if out.is_open() {
                return Ok(out.clone());
            }
        }
        let addr = *self
            .config
            .region_addrs
            .get(region as usize)
            .ok_or(BrokerError::UnknownRegion { region })?;
        let stream = TcpStream::connect(addr).await?;
        stream.set_nodelay(true).ok();
        let (mut read_half, write_half) = stream.into_split();
        let delay = if self.config.emulate_wan {
            duration_from_ms(self.config.latency(region as usize))
        } else {
            Duration::ZERO
        };
        let outbound = Outbound::spawn(write_half, delay);
        let policy = match self.role {
            Role::Subscriber => self.config.slow_consumer,
            _ => None,
        };
        outbound.send(&Frame::Connect {
            client_id: self.config.client_id,
            role: self.role,
            policy,
        });

        if !self.ever_connected.insert(region) {
            multipub_obs::counter!(multipub_obs::metrics::CLIENT_RECONNECTS_TOTAL).inc();
        }
        if let Some(since) = self.disconnected_at.remove(&region) {
            multipub_obs::histogram!(multipub_obs::metrics::CLIENT_RECONNECT_MS)
                .record(since.elapsed().as_secs_f64() * 1000.0);
        }

        // Keepalive task: periodic pings keep broker-side idle deadlines
        // at bay; stops as soon as the writer is gone.
        if let Some(interval) = self.config.keepalive {
            let heartbeat = outbound.clone();
            tokio::spawn(async move {
                let mut nonce = 0u64;
                loop {
                    tokio::time::sleep(interval).await;
                    nonce = nonce.wrapping_add(1);
                    if !heartbeat.send(&Frame::Ping { nonce }) {
                        break;
                    }
                }
            });
        }

        // Reader task: funnel deliveries and config updates into the
        // client's event queue.
        let events_tx = self.events_tx.clone();
        let topic_configs = Arc::clone(&self.topic_configs);
        let acker = outbound.clone();
        tokio::spawn(async move {
            let mut buf = BytesMut::new();
            loop {
                match read_frame(&mut read_half, &mut buf).await {
                    Ok(Some(Frame::Deliver {
                        topic,
                        publisher,
                        publish_micros,
                        headers,
                        payload,
                        trace,
                        qos,
                        seq,
                        retained,
                    })) => {
                        let headers = if headers.is_empty() {
                            Headers::new()
                        } else {
                            Headers::from_json(&headers).unwrap_or_default()
                        };
                        let received_micros = now_micros();
                        // Final trace stage: socket write → client receipt.
                        // The write stamp is patched in by the broker's
                        // writer task; zero means the frame never crossed
                        // an instrumented writer, so no span can be formed.
                        if let Some(ctx) = trace {
                            if ctx.sampled && ctx.write_micros > 0 {
                                let dur = received_micros.saturating_sub(ctx.write_micros);
                                multipub_obs::histogram!(
                                    multipub_obs::metrics::BROKER_STAGE_DELIVER_MS
                                )
                                .record(dur as f64 / 1000.0);
                                multipub_obs::trace::record_span(multipub_obs::trace::Span {
                                    trace_id: ctx.trace_id,
                                    stage: "deliver",
                                    start_micros: ctx.write_micros,
                                    dur_micros: dur,
                                });
                            }
                        }
                        // QoS 1 deliveries are acked on receipt so the
                        // broker can trim its redelivery buffer;
                        // duplicates are re-acked too (the ack may have
                        // been lost with the previous connection).
                        if qos == 1 {
                            acker.send(&Frame::DeliverAck { topic: topic.clone(), publisher, seq });
                        }
                        let delivery = Delivery {
                            topic,
                            publisher,
                            publish_micros,
                            received_micros,
                            headers,
                            payload,
                            trace,
                            qos,
                            seq,
                            retained,
                        };
                        if events_tx.send(Event::Delivery(delivery)).await.is_err() {
                            break;
                        }
                    }
                    Ok(Some(Frame::ConfigUpdate { topic, mask, mode, epoch })) => {
                        // Epoch-gate the install, by the brokers' own rule:
                        // during a handover both old and new regions replay
                        // configs, and a stale region's replay must not
                        // un-steer the client.
                        let installed = topic_configs
                            .lock()
                            .entry(topic.clone())
                            .or_default()
                            .install(InstalledConfig { mask, mode, epoch })
                            .is_ok();
                        if installed && events_tx.send(Event::Config { topic }).await.is_err() {
                            break;
                        }
                    }
                    Ok(Some(Frame::Busy { topic, retry_after_ms, seq })) => {
                        multipub_obs::counter!(multipub_obs::metrics::CLIENT_BUSY_RECEIVED_TOTAL)
                            .inc();
                        multipub_obs::event!(
                            Debug,
                            "client",
                            msg = "publish refused busy",
                            region = region,
                            topic = topic,
                            retry_after_ms = retry_after_ms,
                        );
                        if events_tx.send(Event::Busy { retry_after_ms, seq }).await.is_err() {
                            break;
                        }
                    }
                    Ok(Some(Frame::PubAck { seq, .. })) => {
                        if events_tx.send(Event::PubAck { seq }).await.is_err() {
                            break;
                        }
                    }
                    Ok(Some(_)) => {} // ConnectAck, Pong, …
                    Ok(None) | Err(_) => {
                        let _ = events_tx.send(Event::Disconnected { region }).await;
                        break;
                    }
                }
            }
        });
        self.conns.insert(region, outbound.clone());
        Ok(outbound)
    }
}

/// Microseconds since the Unix epoch.
pub(crate) fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[derive(Debug)]
enum Command {
    Subscribe {
        topic: String,
        filter: String,
        qos: u8,
        ack: tokio::sync::oneshot::Sender<Result<(), BrokerError>>,
    },
    Unsubscribe {
        topic: String,
        ack: tokio::sync::oneshot::Sender<Result<(), BrokerError>>,
    },
}

/// A subscribing client. See the module docs for the steering rules.
///
/// Subscription steering runs in a background actor task: configuration
/// updates are applied (make-before-break resubscription) the moment they
/// arrive, even while the application is not waiting in
/// [`SubscriberClient::next_delivery`] — otherwise publications sent right
/// after a reconfiguration could slip past a subscriber that has not yet
/// moved to the new serving region.
#[derive(Debug)]
pub struct SubscriberClient {
    commands_tx: mpsc::Sender<Command>,
    deliveries_rx: mpsc::Receiver<Delivery>,
    /// topic → (region currently subscribed at, filter source, qos) —
    /// shared with the actor.
    subscriptions: Arc<Mutex<HashMap<String, (u16, String, u8)>>>, // lock:rank(client.subscriptions, 62)
}

impl SubscriberClient {
    /// Creates a subscriber handle and spawns its steering actor on the
    /// current tokio runtime. Connections are opened lazily on the first
    /// subscribe touching each region.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownRegion`] if `config` lists no regions.
    pub fn new(config: ClientConfig) -> Result<Self, BrokerError> {
        config.validate()?;
        let (events_tx, events_rx) = mpsc::channel(EVENT_CHANNEL_CAPACITY);
        let (commands_tx, commands_rx) = mpsc::channel(COMMAND_CHANNEL_CAPACITY);
        let (deliveries_tx, deliveries_rx) = mpsc::channel(EVENT_CHANNEL_CAPACITY);
        let subscriptions = Arc::new(Mutex::new(62, "client.subscriptions", HashMap::new()));
        let actor = SubscriberActor {
            links: Links::new(config, Role::Subscriber, events_tx),
            events_rx,
            commands_rx,
            deliveries_tx,
            subscriptions: Arc::clone(&subscriptions),
            backoffs: HashMap::new(),
            dedup: HashMap::new(),
        };
        tokio::spawn(actor.run());
        Ok(SubscriberClient { commands_tx, deliveries_rx, subscriptions })
    }

    /// Subscribes to `topic` at the closest serving region.
    ///
    /// # Errors
    ///
    /// Returns a connection error if the serving broker is unreachable.
    pub async fn subscribe(&mut self, topic: &str) -> Result<(), BrokerError> {
        self.send_subscribe(topic, String::new(), 0).await
    }

    /// Subscribes to `topic` with at-least-once (QoS 1) delivery: the
    /// broker buffers unacked deliveries and replays them when this
    /// client resubscribes after a disconnect, and the client filters
    /// the resulting duplicates by per-publisher sequence number.
    ///
    /// # Errors
    ///
    /// Returns a connection error if the serving broker is unreachable.
    pub async fn subscribe_qos1(&mut self, topic: &str) -> Result<(), BrokerError> {
        self.send_subscribe(topic, String::new(), 1).await
    }

    /// Subscribes to `topic` restricted by a content filter (the
    /// `multipub-filter` predicate language) — the paper's future-work
    /// content-based extension. Only publications whose headers satisfy
    /// the predicate are delivered.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::BadFilter`] when the predicate does not
    /// parse, or a connection error if the serving broker is unreachable.
    pub async fn subscribe_filtered(
        &mut self,
        topic: &str,
        filter: &str,
    ) -> Result<(), BrokerError> {
        Predicate::parse(filter).map_err(|e| BrokerError::BadFilter { message: e.to_string() })?;
        self.send_subscribe(topic, filter.to_string(), 0).await
    }

    async fn send_subscribe(
        &mut self,
        topic: &str,
        filter: String,
        qos: u8,
    ) -> Result<(), BrokerError> {
        let (ack, done) = tokio::sync::oneshot::channel();
        self.commands_tx
            .send(Command::Subscribe { topic: topic.to_string(), filter, qos, ack })
            .await
            .map_err(|_| BrokerError::ConnectionClosed)?;
        done.await.map_err(|_| BrokerError::ConnectionClosed)?
    }

    /// Drops the subscription to `topic`.
    ///
    /// # Errors
    ///
    /// Returns a connection error if the serving broker is unreachable.
    pub async fn unsubscribe(&mut self, topic: &str) -> Result<(), BrokerError> {
        let (ack, done) = tokio::sync::oneshot::channel();
        self.commands_tx
            .send(Command::Unsubscribe { topic: topic.to_string(), ack })
            .await
            .map_err(|_| BrokerError::ConnectionClosed)?;
        done.await.map_err(|_| BrokerError::ConnectionClosed)?
    }

    /// The region a topic is currently subscribed at, if any.
    pub fn subscribed_region(&self, topic: &str) -> Option<RegionId> {
        self.subscriptions.lock().get(topic).map(|&(r, _, _)| RegionId(r as u8))
    }

    /// Waits for the next delivery.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::ConnectionClosed`] when the steering actor
    /// has terminated.
    pub async fn next_delivery(&mut self) -> Result<Delivery, BrokerError> {
        self.deliveries_rx.recv().await.ok_or(BrokerError::ConnectionClosed)
    }
}

struct SubscriberActor {
    links: Links,
    events_rx: mpsc::Receiver<Event>,
    commands_rx: mpsc::Receiver<Command>,
    deliveries_tx: mpsc::Sender<Delivery>,
    /// Shared with the [`SubscriberClient`] handle; same lock as the
    /// handle's field. lock:rank(client.subscriptions, 62)
    subscriptions: Arc<Mutex<HashMap<String, (u16, String, u8)>>>,
    /// In-flight reconnect episodes, one per dead region.
    backoffs: HashMap<u16, Backoff>,
    /// Per-publisher duplicate filter for QoS 1 traffic, mirroring the
    /// broker's dedup discipline: redeliveries (reconnect replay, mesh
    /// double-path, broker retransmit) are dropped before they reach
    /// the application.
    dedup: HashMap<u64, DedupWindow>,
}

impl SubscriberActor {
    async fn run(mut self) {
        loop {
            tokio::select! {
                command = self.commands_rx.recv() => match command {
                    Some(Command::Subscribe { topic, filter, qos, ack }) => {
                        let _ = ack.send(self.subscribe(&topic, filter, qos).await);
                    }
                    Some(Command::Unsubscribe { topic, ack }) => {
                        let _ = ack.send(self.unsubscribe(&topic).await);
                    }
                    None => break, // handle dropped
                },
                event = self.events_rx.recv() => match event {
                    Some(Event::Delivery(delivery)) => {
                        if self.is_duplicate(&delivery) {
                            multipub_obs::counter!(
                                multipub_obs::metrics::CLIENT_DEDUP_HITS_TOTAL
                            )
                            .inc();
                        } else if self.deliveries_tx.send(delivery).await.is_err() {
                            break;
                        }
                    }
                    Some(Event::Config { topic }) => {
                        // Steering failures (unreachable broker) leave the
                        // old subscription in place; the next update
                        // retries.
                        let _ = self.handle_config_update(&topic).await;
                    }
                    Some(Event::Disconnected { region }) => {
                        self.links.mark_disconnected(region);
                        self.begin_reconnect(region);
                    }
                    Some(Event::ReconnectDue { region }) => {
                        self.try_reconnect(region).await;
                    }
                    // Busy NACKs and publish acks only concern publishers.
                    Some(Event::Busy { .. }) | Some(Event::PubAck { .. }) => {}
                    None => break,
                },
            }
        }
    }

    /// Client-side duplicate filter: QoS 1 deliveries are tracked in a
    /// per-publisher sequence window; a sequence already observed is a
    /// redelivery and must not reach the application twice.
    fn is_duplicate(&mut self, delivery: &Delivery) -> bool {
        if delivery.qos != 1 || delivery.seq == 0 {
            return false;
        }
        !self
            .dedup
            .entry(delivery.publisher)
            .or_insert_with(|| DedupWindow::new(DEFAULT_DEDUP_WINDOW))
            .observe(delivery.seq)
    }

    /// Starts a backoff episode for `region` if any subscription is homed
    /// there and no episode is already running.
    fn begin_reconnect(&mut self, region: u16) {
        let needed = self.subscriptions.lock().values().any(|&(r, _, _)| r == region);
        if !needed {
            self.backoffs.remove(&region);
            return;
        }
        if self.backoffs.contains_key(&region) {
            return;
        }
        let seed = self.links.config.client_id ^ ((region as u64) << 32);
        let mut backoff = self.links.config.reconnect.backoff(seed);
        if let Some(delay) = backoff.next_delay() {
            self.backoffs.insert(region, backoff);
            self.schedule_reconnect(region, delay);
        }
    }

    /// Arms a timer that re-enters the actor via `Event::ReconnectDue`,
    /// keeping the actor responsive while the backoff elapses.
    fn schedule_reconnect(&self, region: u16, delay: Duration) {
        let events_tx = self.links.events_tx.clone();
        tokio::spawn(async move {
            tokio::time::sleep(delay).await;
            let _ = events_tx.send(Event::ReconnectDue { region }).await;
        });
    }

    /// One reconnect attempt: on success, replay the Subscribe set homed
    /// at `region` (the broker lost it with the connection); on failure,
    /// re-arm the next backoff delay until the policy gives up.
    async fn try_reconnect(&mut self, region: u16) {
        let to_replay: Vec<(String, String, u8)> = self
            .subscriptions
            .lock()
            .iter()
            .filter(|(_, (r, _, _))| *r == region)
            .map(|(topic, (_, filter, qos))| (topic.clone(), filter.clone(), *qos))
            .collect();
        if to_replay.is_empty() {
            // Everything re-steered elsewhere while we were backing off.
            self.backoffs.remove(&region);
            return;
        }
        match self.links.connect(region).await {
            Ok(outbound) => {
                self.backoffs.remove(&region);
                for (topic, filter, qos) in to_replay {
                    outbound.send(&Frame::Subscribe { topic, filter, qos });
                }
            }
            Err(_) => {
                if let Some(backoff) = self.backoffs.get_mut(&region) {
                    match backoff.next_delay() {
                        Some(delay) => self.schedule_reconnect(region, delay),
                        None => {
                            self.backoffs.remove(&region);
                            multipub_obs::event!(
                                Warn,
                                "client",
                                msg = "reconnect attempts exhausted",
                                region = region
                            );
                        }
                    }
                }
            }
        }
    }

    async fn subscribe(&mut self, topic: &str, filter: String, qos: u8) -> Result<(), BrokerError> {
        // A topic listed in `qos1_topics` upgrades any plain subscribe.
        let qos = qos.max(self.links.config.qos_for(topic));
        let config = self.links.config_for(topic);
        let region = self.links.closest_serving(config.mask);
        let outbound = self.links.connect(region).await?;
        outbound.send(&Frame::Subscribe { topic: topic.to_string(), filter: filter.clone(), qos });
        self.subscriptions.lock().insert(topic.to_string(), (region, filter, qos));
        Ok(())
    }

    async fn unsubscribe(&mut self, topic: &str) -> Result<(), BrokerError> {
        let entry = self.subscriptions.lock().remove(topic);
        if let Some((region, _, _)) = entry {
            let outbound = self.links.connect(region).await?;
            outbound.send(&Frame::Unsubscribe { topic: topic.to_string() });
        }
        Ok(())
    }

    async fn handle_config_update(&mut self, topic: &str) -> Result<(), BrokerError> {
        let (current, filter, qos) = match self.subscriptions.lock().get(topic) {
            Some((region, filter, qos)) => (*region, filter.clone(), *qos),
            None => return Ok(()), // not subscribed to this topic
        };
        let config = self.links.config_for(topic);
        let target = self.links.closest_serving(config.mask);
        if target == current {
            return Ok(());
        }
        // Make before break: subscribe at the new region first, carrying
        // the same content filter and QoS.
        let new_outbound = self.links.connect(target).await?;
        new_outbound.send(&Frame::Subscribe {
            topic: topic.to_string(),
            filter: filter.clone(),
            qos,
        });
        if let Ok(old_outbound) = self.links.connect(current).await {
            old_outbound.send(&Frame::Unsubscribe { topic: topic.to_string() });
        }
        self.subscriptions.lock().insert(topic.to_string(), (target, filter, qos));
        Ok(())
    }
}

/// A publishing client. See the module docs for the steering rules.
///
/// When every serving region is unreachable, publications are buffered in
/// a bounded FIFO (size [`ClientConfig::publish_buffer`], oldest evicted
/// first) and flushed — with the serving set re-resolved against the
/// latest configuration — on the next successful publish or an explicit
/// [`PublisherClient::flush_pending`].
#[derive(Debug)]
pub struct PublisherClient {
    links: Links,
    events_rx: mpsc::Receiver<Event>,
    pending: PendingQueue,
    /// While set, the broker has NACKed with [`Frame::Busy`]: publishes
    /// are buffered instead of sent until the deadline passes.
    busy_until: Option<tokio::time::Instant>,
    /// Decorrelated-jitter backoff across consecutive Busy NACKs, so a
    /// fleet of refused publishers does not retry in lockstep.
    busy_backoff: Backoff,
    /// Deterministic 1-in-N trace sampler built from
    /// [`ClientConfig::trace_sample`].
    sampler: multipub_obs::trace::Sampler,
    /// Next QoS 1 sequence number. Per-publisher and global across
    /// topics, starting at 1 — sequence 0 marks unsequenced QoS 0
    /// traffic on the wire.
    next_seq: u64,
    /// QoS 1 publications not yet acked by a broker, keyed by sequence.
    /// Each is retransmitted on its own decorrelated-jitter schedule
    /// until a [`Frame::PubAck`] arrives — including across reconnects,
    /// since every send re-resolves and re-dials the serving set.
    unacked: BTreeMap<u64, UnackedPublish>,
}

/// A QoS 1 publication awaiting its broker ack.
#[derive(Debug)]
struct UnackedPublish {
    entry: PendingPublish,
    /// Retransmit schedule for this publication.
    backoff: Backoff,
    /// Earliest instant the next retransmit may go out.
    next_retry: tokio::time::Instant,
    /// Wire-send attempts so far.
    attempts: u32,
}

impl PublisherClient {
    /// Creates a publisher handle. Connections are opened lazily on the
    /// first publish touching each region.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownRegion`] if `config` lists no regions.
    pub fn new(config: ClientConfig) -> Result<Self, BrokerError> {
        config.validate()?;
        let (events_tx, events_rx) = mpsc::channel(EVENT_CHANNEL_CAPACITY);
        let pending = PendingQueue::new(config.publish_buffer);
        let busy_backoff = config.reconnect.backoff(config.client_id ^ 0xB5_5B);
        let sampler = multipub_obs::trace::Sampler::new(config.trace_sample);
        Ok(PublisherClient {
            links: Links::new(config, Role::Publisher, events_tx),
            events_rx,
            pending,
            busy_until: None,
            busy_backoff,
            sampler,
            next_seq: 1,
            unacked: BTreeMap::new(),
        })
    }

    /// Publishes `payload` on `topic`, steering by the topic's current
    /// configuration: to every serving region under direct delivery, to
    /// the closest serving region under routed delivery.
    ///
    /// Returns the number of regions the publication was sent to.
    ///
    /// # Errors
    ///
    /// Returns a connection error if a serving broker is unreachable.
    pub async fn publish(
        &mut self,
        topic: &str,
        payload: impl Into<Bytes>,
    ) -> Result<usize, BrokerError> {
        self.publish_with_headers(topic, &Headers::new(), payload).await
    }

    /// Publishes `payload` on `topic` with content headers attached, so
    /// filtered subscribers (see
    /// [`SubscriberClient::subscribe_filtered`]) can match on them.
    ///
    /// Returns the number of regions the publication was sent to — `0`
    /// when every serving region was unreachable and the publication was
    /// buffered for a later flush instead.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownRegion`] only for malformed
    /// configurations; unreachable brokers buffer rather than error.
    pub async fn publish_with_headers(
        &mut self,
        topic: &str,
        headers: &Headers,
        payload: impl Into<Bytes>,
    ) -> Result<usize, BrokerError> {
        self.publish_inner(topic, headers, payload.into(), false).await
    }

    /// Publishes `payload` on `topic` and asks the broker to **retain**
    /// it as the topic's last value, replayed to every future subscriber
    /// (the market-data snapshot pattern). An empty payload clears the
    /// retained value. Requires the broker to run with retention
    /// enabled; otherwise the flag is ignored and this behaves like a
    /// plain publish.
    ///
    /// # Errors
    ///
    /// As [`PublisherClient::publish_with_headers`].
    pub async fn publish_retained(
        &mut self,
        topic: &str,
        headers: &Headers,
        payload: impl Into<Bytes>,
    ) -> Result<usize, BrokerError> {
        self.publish_inner(topic, headers, payload.into(), true).await
    }

    async fn publish_inner(
        &mut self,
        topic: &str,
        headers: &Headers,
        payload: Bytes,
        retain: bool,
    ) -> Result<usize, BrokerError> {
        self.drain_events();
        let qos = self.links.config.qos_for(topic);
        let seq = if qos == 1 {
            let seq = self.next_seq;
            self.next_seq += 1;
            seq
        } else {
            0
        };
        let trace = self
            .sampler
            .should_sample()
            .then(|| TraceContext::new(multipub_obs::trace::next_trace_id()));
        let entry = PendingPublish {
            topic: topic.to_string(),
            headers: if headers.is_empty() { String::new() } else { headers.to_json() },
            payload: payload.to_vec(),
            publish_micros: now_micros(),
            trace,
            qos,
            seq,
            retain,
        };
        if qos == 1 {
            return Ok(self.publish_qos1(entry).await);
        }
        // Inside a Busy window the broker asked us to back off: buffer
        // without attempting, exactly like an unreachable region.
        if self.in_busy_window() {
            self.buffer(entry);
            return Ok(0);
        }
        self.flush_pending().await;
        match self.try_send(&entry).await {
            Ok(sent) => {
                // An accepted publication ends the overload episode:
                // reset the Busy backoff so the next NACK starts small.
                self.busy_backoff =
                    self.links.config.reconnect.backoff(self.links.config.client_id ^ 0xB5_5B);
                Ok(sent)
            }
            Err(_) => {
                self.buffer(entry);
                Ok(0)
            }
        }
    }

    /// QoS 1 send path. The publication is tracked as unacked *before*
    /// the first wire attempt, so a send failure, a Busy NACK or a
    /// broker crash all leave it scheduled for retransmission rather
    /// than lost.
    async fn publish_qos1(&mut self, entry: PendingPublish) -> usize {
        let seq = entry.seq;
        let backoff = self.links.config.reconnect.backoff(self.links.config.client_id ^ seq);
        self.unacked.insert(
            seq,
            UnackedPublish { entry, backoff, next_retry: tokio::time::Instant::now(), attempts: 0 },
        );
        if self.in_busy_window() {
            // Honour the broker's backoff request; the publication waits
            // in the unacked set until the window passes.
            if let (Some(pending), Some(until)) = (self.unacked.get_mut(&seq), self.busy_until) {
                pending.next_retry = until;
            }
            return 0;
        }
        self.send_unacked(seq).await
    }

    /// One wire attempt for an unacked publication; reschedules its next
    /// retransmit regardless of outcome.
    async fn send_unacked(&mut self, seq: u64) -> usize {
        let Some(mut pending) = self.unacked.remove(&seq) else {
            return 0; // acked concurrently
        };
        let sent = self.try_send(&pending.entry).await.unwrap_or(0);
        pending.attempts += 1;
        if pending.attempts > 1 {
            multipub_obs::counter!(multipub_obs::metrics::CLIENT_RETRANSMITS_TOTAL).inc();
        }
        let delay = pending.backoff.next_delay().unwrap_or(self.links.config.reconnect.cap);
        pending.next_retry = tokio::time::Instant::now() + delay;
        self.unacked.insert(seq, pending);
        // The ack may already be queued; apply it before reporting.
        self.drain_events();
        sent
    }

    /// Retransmits every unacked QoS 1 publication whose retry deadline
    /// has passed (unless a Busy window holds sends back). Returns the
    /// number of publications attempted. [`PublisherClient::await_acked`]
    /// calls this in a loop; callers driving their own schedule can
    /// invoke it directly.
    pub async fn flush_retransmits(&mut self) -> usize {
        self.drain_events();
        if self.in_busy_window() {
            return 0;
        }
        let now = tokio::time::Instant::now();
        let due: Vec<u64> =
            self.unacked.iter().filter(|(_, p)| p.next_retry <= now).map(|(&s, _)| s).collect();
        let mut attempted = 0;
        for seq in due {
            if self.unacked.contains_key(&seq) {
                self.send_unacked(seq).await;
                attempted += 1;
            }
            if self.in_busy_window() {
                break;
            }
        }
        attempted
    }

    /// Drives retransmission until every outstanding QoS 1 publication
    /// is acked or `timeout` elapses. Returns `true` when the unacked
    /// set drained in time.
    pub async fn await_acked(&mut self, timeout: Duration) -> bool {
        let deadline = tokio::time::Instant::now() + timeout;
        loop {
            self.flush_retransmits().await;
            if self.unacked.is_empty() {
                return true;
            }
            let now = tokio::time::Instant::now();
            if now >= deadline {
                return false;
            }
            // Sleep until the earliest retry (pushed past any Busy
            // window), waking early for inbound acks.
            let mut wake = self.unacked.values().map(|p| p.next_retry).min().unwrap_or(deadline);
            if let Some(until) = self.busy_until {
                wake = wake.max(until);
            }
            let wake = wake.min(deadline);
            tokio::select! {
                event = self.events_rx.recv() => match event {
                    Some(event) => self.apply_event(event),
                    None => return false,
                },
                _ = tokio::time::sleep_until(wake) => {}
            }
        }
    }

    /// Number of QoS 1 publications sent (or buffered behind a Busy
    /// window) but not yet acked by a broker.
    pub fn unacked_count(&self) -> usize {
        self.unacked.len()
    }

    /// Whether a broker [`Frame::Busy`] NACK currently holds publishing
    /// back (window not yet elapsed).
    pub fn is_busy(&mut self) -> bool {
        self.drain_events();
        self.in_busy_window()
    }

    fn in_busy_window(&mut self) -> bool {
        match self.busy_until {
            Some(until) if tokio::time::Instant::now() < until => true,
            Some(_) => {
                self.busy_until = None;
                false
            }
            None => false,
        }
    }

    /// One immediate send attempt for a (possibly buffered) publication,
    /// resolving the serving set from the *current* configuration. Under
    /// routed delivery, serving regions are tried closest-first until one
    /// answers (§IV.B's latency-preference applied to failover); under
    /// direct delivery every reachable serving region gets a copy. Errors
    /// only when no serving region accepted the message.
    async fn try_send(&mut self, entry: &PendingPublish) -> Result<usize, BrokerError> {
        let config = self.links.config_for(&entry.topic);
        let publisher_id = self.links.config.client_id;
        let frame = |single_target: bool| Frame::Publish {
            topic: entry.topic.clone(),
            publisher: publisher_id,
            publish_micros: entry.publish_micros,
            single_target,
            headers: entry.headers.clone(),
            payload: Bytes::from(entry.payload.clone()),
            trace: entry.trace,
            qos: entry.qos,
            seq: entry.seq,
            retain: entry.retain,
            epoch: config.epoch,
        };
        let mut serving: Vec<u16> = (0..self.links.n_regions() as u16)
            .filter(|&r| config.mask & (1u32 << r) != 0)
            .collect();
        let mut last_err = BrokerError::UnknownRegion { region: 0 };
        match config.mode {
            WireMode::Routed => {
                serving.sort_by(|&a, &b| {
                    self.links
                        .config
                        .latency(a as usize)
                        .total_cmp(&self.links.config.latency(b as usize))
                });
                for region in serving {
                    match self.links.connect(region).await {
                        Ok(outbound) => {
                            if outbound.send(&frame(true)) {
                                return Ok(1);
                            }
                            self.links.mark_disconnected(region);
                            last_err = BrokerError::ConnectionClosed;
                        }
                        Err(e) => last_err = e,
                    }
                }
                Err(last_err)
            }
            WireMode::Direct => {
                let message = frame(false);
                let mut sent = 0;
                for region in serving {
                    match self.links.connect(region).await {
                        Ok(outbound) => {
                            if outbound.send(&message) {
                                sent += 1;
                            } else {
                                self.links.mark_disconnected(region);
                                last_err = BrokerError::ConnectionClosed;
                            }
                        }
                        Err(e) => last_err = e,
                    }
                }
                if sent > 0 {
                    Ok(sent)
                } else {
                    Err(last_err)
                }
            }
        }
    }

    fn buffer(&mut self, entry: PendingPublish) {
        let dropped_before = self.pending.dropped();
        self.pending.push(entry);
        multipub_obs::counter!(multipub_obs::metrics::CLIENT_FRAMES_BUFFERED_TOTAL).inc();
        let evicted = self.pending.dropped() - dropped_before;
        if evicted > 0 {
            multipub_obs::counter!(multipub_obs::metrics::CLIENT_FRAMES_DROPPED_TOTAL).add(evicted);
        }
    }

    /// Attempts to deliver buffered publications in FIFO order, stopping
    /// at the first one that still cannot reach any serving region.
    /// Returns the number flushed. Called automatically at the start of
    /// every publish.
    pub async fn flush_pending(&mut self) -> usize {
        if self.in_busy_window() {
            return 0;
        }
        let mut flushed = 0;
        while let Some(entry) = self.pending.pop() {
            match self.try_send(&entry).await {
                Ok(_) => flushed += 1,
                Err(_) => {
                    self.pending.push_front(entry);
                    break;
                }
            }
        }
        flushed
    }

    /// Number of publications currently buffered while awaiting a
    /// reachable serving region.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The configuration this publisher currently holds for a topic.
    pub fn config_for(&self, topic: &str) -> (u32, WireMode) {
        let config = self.links.config_for(topic);
        (config.mask, config.mode)
    }

    /// Applies any queued configuration updates, acks and NACKs without
    /// blocking.
    pub fn drain_events(&mut self) {
        while let Ok(event) = self.events_rx.try_recv() {
            self.apply_event(event);
        }
    }

    fn apply_event(&mut self, event: Event) {
        // Config updates already landed in the shared map; Delivery
        // events cannot occur on a publisher connection.
        match event {
            Event::Disconnected { region } => self.links.mark_disconnected(region),
            Event::Busy { retry_after_ms, seq } => {
                self.note_busy(retry_after_ms);
                // A NACKed QoS 1 publish stays pending for retry: push
                // its next attempt past the broker's hint instead of
                // shedding it (the broker never recorded it as seen).
                if seq != 0 {
                    if let (Some(pending), Some(until)) =
                        (self.unacked.get_mut(&seq), self.busy_until)
                    {
                        pending.next_retry = pending.next_retry.max(until);
                    }
                }
            }
            Event::PubAck { seq } => {
                self.unacked.remove(&seq);
            }
            _ => {}
        }
    }

    /// Opens (or extends) the Busy window: the broker's retry hint, or
    /// the decorrelated-jitter backoff delay when that is longer —
    /// consecutive NACKs push retries further apart.
    fn note_busy(&mut self, retry_after_ms: u32) {
        let hint = Duration::from_millis(u64::from(retry_after_ms));
        let delay = self.busy_backoff.next_delay().map_or(hint, |d| d.max(hint));
        let until = tokio::time::Instant::now() + delay;
        if self.busy_until.is_none_or(|current| until > current) {
            self.busy_until = Some(until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(latencies: Vec<f64>) -> ClientConfig {
        let n = latencies.len();
        ClientConfig {
            region_addrs: (0..n)
                .map(|i| SocketAddr::from(([127, 0, 0, 1], 10_000 + i as u16)))
                .collect(),
            latencies_ms: latencies,
            ..ClientConfig::new(1, Vec::new())
        }
    }

    #[test]
    fn closest_serving_respects_mask_and_latency() {
        let (tx, _rx) = mpsc::channel(8);
        let links = Links::new(test_config(vec![30.0, 10.0, 20.0]), Role::Subscriber, tx);
        assert_eq!(links.closest_serving(0b111), 1);
        assert_eq!(links.closest_serving(0b101), 2);
        assert_eq!(links.closest_serving(0b001), 0);
    }

    #[test]
    fn default_topic_config_is_all_regions_routed() {
        let (tx, _rx) = mpsc::channel(8);
        let links = Links::new(test_config(vec![1.0, 2.0]), Role::Publisher, tx);
        let config = links.config_for("unknown");
        assert_eq!(config.mask, 0b11);
        assert_eq!(config.mode, WireMode::Routed);
    }

    #[test]
    fn empty_region_list_rejected() {
        let config = ClientConfig::new(1, vec![]);
        assert!(SubscriberClient::new(config.clone()).is_err());
        assert!(PublisherClient::new(config).is_err());
    }

    #[test]
    fn delivery_latency_computation() {
        let delivery = Delivery {
            topic: "t".into(),
            publisher: 1,
            publish_micros: 1_000,
            received_micros: 43_500,
            headers: Headers::new(),
            payload: Bytes::new(),
            trace: None,
            qos: 0,
            seq: 0,
            retained: false,
        };
        assert!((delivery.latency_ms() - 42.5).abs() < 1e-9);
        // Clock skew never yields negative latency.
        let skewed = Delivery { received_micros: 0, ..delivery };
        assert_eq!(skewed.latency_ms(), 0.0);
    }

    #[test]
    fn missing_latencies_default_to_zero() {
        let mut config = test_config(vec![]);
        config.region_addrs =
            vec![SocketAddr::from(([127, 0, 0, 1], 1)), SocketAddr::from(([127, 0, 0, 1], 2))];
        let (tx, _rx) = mpsc::channel(8);
        let links = Links::new(config, Role::Subscriber, tx);
        assert_eq!(links.closest_serving(0b10), 1);
        assert_eq!(links.closest_serving(0b11), 0);
    }
}
