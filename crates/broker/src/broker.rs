//! The per-region broker.
//!
//! One broker serves one cloud region (the paper's single-server-per-region
//! simplification). It plays two roles:
//!
//! * **Pub/sub matching engine** — tracks local subscriptions, delivers
//!   publications to local subscribers, and under routed delivery forwards
//!   first-hop publications to the peer brokers of the topic's other
//!   serving regions.
//! * **Region manager** (paper §III.A3) — collects per-topic statistics
//!   (publishers, message counts and bytes, local subscribers) over the
//!   current interval, hands them to the controller on request, and fans
//!   controller configuration updates out to its connected clients.
//!
//! Topics without an installed configuration default to *all regions,
//! routed* — the safe bootstrap that guarantees delivery everywhere until
//! the controller optimizes the topic down.

use crate::codec::encode_to_bytes;
use crate::conn::{read_frame, BrokerError};
use crate::delay::{DelayTable, Outbound};
use crate::flow::{FlowConfig, GlobalBudget, SlowConsumerPolicy, TokenBucket};
use crate::frame::{Frame, Role, TraceContext, WireMode};
use crate::qos::{QosState, RetainedMessage, UnackedDelivery, DEFAULT_DEDUP_WINDOW};
use crate::shard::{resolve_shard_count, ShardedTopics};
use crate::sync::Mutex;
use bytes::{Bytes, BytesMut};
use multipub_core::ids::RegionId;
use multipub_filter::{Headers, Predicate};
use multipub_proto::TopicView;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::{TcpListener, TcpStream};
use tokio::task::JoinHandle;

/// Retry hint sent in a [`Frame::Busy`] NACK when the broker-wide
/// in-flight budget is tripped (the token bucket computes a precise hint;
/// the global state cannot, so it suggests a short, fixed backoff).
const DEFAULT_BUSY_RETRY_MS: u32 = 100;

/// Per-publisher statistics within one topic and interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PublisherStats {
    /// Number of publications observed.
    pub messages: u64,
    /// Total payload bytes observed.
    pub bytes: u64,
}

/// Per-topic statistics within one region and interval.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TopicReport {
    /// Statistics per publishing client id.
    pub publishers: BTreeMap<u64, PublisherStats>,
    /// Client ids of local subscribers.
    pub subscribers: Vec<u64>,
}

/// One region manager's interval report (paper §III.A3), sent to the
/// controller as JSON in a [`Frame::StatsReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionReport {
    /// The reporting broker's region index.
    pub region: u16,
    /// Per-topic statistics.
    pub topics: BTreeMap<String, TopicReport>,
}

/// A topic's installed configuration (DESIGN.md §15); the epoch rule
/// that decides it lives in [`TopicView`].
pub use multipub_proto::InstalledConfig;

#[derive(Debug)]
struct ConnectedClient {
    client_id: u64,
    role: Role,
    outbound: Outbound,
}

/// One local subscription as the sharded registry stores it: everything a
/// publish needs to fan out — so the hot path touches only the topic's
/// shard, never the global `clients` map.
#[derive(Debug, Clone)]
struct SubEntry {
    client_id: u64,
    /// Content filter ([`Predicate::True`] for plain topic
    /// subscriptions). `Arc`ed so snapshotting the fan-out set bumps a
    /// refcount instead of deep-copying a predicate tree.
    filter: Arc<Predicate>,
    /// Requested delivery QoS: `1` subscriptions get their QoS 1
    /// deliveries tracked until acked and redelivered on reconnect.
    qos: u8,
    outbound: Outbound,
}

#[derive(Debug, Default)]
struct TopicStats {
    publishers: HashMap<u64, PublisherStats>,
}

#[derive(Debug)]
struct Shared {
    region: RegionId,
    delays: DelayTable,
    /// Addresses of peer brokers by region index.
    peer_addrs: Mutex<HashMap<u16, SocketAddr>>, // lock:rank(broker.peer_addrs, 30)
    /// Known-region bitmask (self + peers), kept in lockstep with
    /// `peer_addrs` so the publish hot path derives default topic
    /// configurations without taking that lock.
    peer_mask: AtomicU32,
    /// Established outbound connections to peer brokers. Async mutex —
    /// its guard is held across the `.await`s of a peer dial, so it is
    /// outside the runtime witness; the rank below is enforced by the
    /// static pass (L6) only.
    peer_conns: tokio::sync::Mutex<HashMap<u16, Outbound>>, // lock:rank(broker.peer_conns, 20)
    /// Connected clients by connection id — the control plane's view
    /// (config fan-out and replay, `client_count`). The publish hot path
    /// never touches it; fan-out works entirely from `shards`.
    clients: Mutex<HashMap<u64, ConnectedClient>>, // lock:rank(broker.clients, 40)
    /// Local subscription state, sharded by topic hash (DESIGN.md §11):
    /// concurrent publishes to topics on different shards never contend.
    shards: ShardedTopics<SubEntry>,
    /// Whether fan-out encodes each publication once and hands
    /// refcounted [`Bytes`] slices to every subscriber queue (`true`
    /// whenever more than one shard is configured). The single-shard
    /// configuration keeps the seed's per-subscriber encode +
    /// frame-at-a-time writes as the benchmark reference path.
    zero_copy: bool,
    /// Each topic's committed configuration and in-flight handover
    /// (DESIGN.md §15). A topic with no committed configuration follows
    /// the live all-peers default.
    configs: Mutex<HashMap<String, TopicView>>, // lock:rank(broker.configs, 50)
    /// Interval statistics per topic.
    stats: Mutex<HashMap<String, TopicStats>>, // lock:rank(broker.stats, 55)
    next_conn_id: AtomicU64,
    /// Live connection tasks, so shutdown can sever established
    /// connections (not just stop accepting) and clients fail over
    /// promptly instead of talking to a zombie.
    conn_tasks: Mutex<Vec<JoinHandle<()>>>, // lock:rank(broker.conn_tasks, 10)
    /// Reap a connection after this much inbound silence (`None` never
    /// reaps — the pre-fault-tolerance behaviour).
    idle_timeout: Option<Duration>,
    /// Heartbeat cadence on outbound peer links, so idle peers are not
    /// reaped by each other's idle deadline.
    peer_keepalive: Option<Duration>,
    /// Default outbound-queue configuration for every connection. A
    /// subscriber's `Connect` may override the slow-consumer policy for
    /// its own connection.
    flow: FlowConfig,
    /// Broker-wide in-flight-bytes budget across all outbound queues;
    /// trips the `Overloaded` state (DESIGN.md §10).
    budget: Arc<GlobalBudget>,
    /// Per-publisher admission rate in publications/second (`None`
    /// disables the token bucket).
    publish_rate: Option<f64>,
    /// At-least-once state: dedup windows, retained messages and
    /// unacked-delivery buffers (DESIGN.md §13).
    qos: QosState,
}

impl Shared {
    /// The serving set of topics the controller has not placed yet (with
    /// routed delivery): every known region, self + peers. Reads the
    /// atomic region mask — no extra lock on the publish hot path.
    fn unplaced_mask(&self) -> u32 {
        self.peer_mask.load(Ordering::Relaxed)
    }

    /// Runs one control-plane transition on `topic`'s view under the
    /// `configs` lock, creating the view when the topic has none.
    fn with_view<R>(&self, topic: &str, f: impl FnOnce(&mut TopicView) -> R) -> R {
        f(self.configs.lock().entry(topic.to_string()).or_default())
    }
}

/// Builder for a [`Broker`]. See [`Broker::builder`].
#[derive(Debug)]
pub struct BrokerBuilder {
    region: RegionId,
    bind: SocketAddr,
    peers: Vec<(RegionId, SocketAddr)>,
    delays: DelayTable,
    idle_timeout: Option<Duration>,
    peer_keepalive: Option<Duration>,
    flow: FlowConfig,
    inflight_budget: Option<u64>,
    publish_rate: Option<f64>,
    shards: Option<usize>,
    dedup_window: usize,
    retain: bool,
}

impl BrokerBuilder {
    /// The address to listen on (use port 0 for an ephemeral port).
    pub fn bind(mut self, addr: SocketAddr) -> Self {
        self.bind = addr;
        self
    }

    /// Registers a peer broker for another region. Peers may also be added
    /// after startup with [`Broker::add_peer`].
    pub fn peer(mut self, region: RegionId, addr: SocketAddr) -> Self {
        self.peers.push((region, addr));
        self
    }

    /// Installs a WAN-emulation delay table (see [`DelayTable`]).
    pub fn delays(mut self, delays: DelayTable) -> Self {
        self.delays = delays;
        self
    }

    /// Reaps connections (clients and inbound peer links) that send
    /// nothing for `timeout`. Clients with
    /// [`crate::client::ClientConfig::keepalive`] enabled ping well inside
    /// the deadline, so only genuinely dead connections are culled.
    /// Outbound peer links automatically heartbeat at `timeout / 3`
    /// unless [`BrokerBuilder::peer_keepalive`] overrides it. Disabled by
    /// default.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Overrides the heartbeat cadence on outbound peer links (defaults
    /// to a third of the idle timeout when one is set, otherwise off).
    pub fn peer_keepalive(mut self, interval: Duration) -> Self {
        self.peer_keepalive = Some(interval);
        self
    }

    /// Caps every connection's outbound queue at `frames` data frames
    /// (default [`crate::flow::DEFAULT_OUTBOUND_CAPACITY`]). The low
    /// watermark, where `Block`-policy senders resume, is half of it.
    pub fn outbound_queue(mut self, frames: usize) -> Self {
        let policy = self.flow.policy;
        self.flow = FlowConfig::with_capacity(frames).policy(policy);
        self
    }

    /// Default [`SlowConsumerPolicy`] applied when a full outbound queue
    /// meets a slow consumer. Subscribers may override it for their own
    /// connection via [`crate::client::ClientConfig::slow_consumer`].
    pub fn slow_consumer(mut self, policy: SlowConsumerPolicy) -> Self {
        self.flow.policy = policy;
        self
    }

    /// Rate-limits each publisher connection to `per_second`
    /// publications/second (token bucket; burst = one second's worth).
    /// Over-rate publications are refused with a [`Frame::Busy`] NACK.
    pub fn publish_rate(mut self, per_second: f64) -> Self {
        self.publish_rate = Some(per_second);
        self
    }

    /// Broker-wide budget for bytes queued across all outbound
    /// connections. When total queued bytes exceed it the broker enters
    /// the `Overloaded` state and refuses publications with
    /// [`Frame::Busy`] until the backlog drains to half the budget.
    /// Unset means effectively unlimited.
    pub fn inflight_budget(mut self, bytes: u64) -> Self {
        self.inflight_budget = Some(bytes);
        self
    }

    /// Number of subscription-map shards on the publish hot path
    /// (DESIGN.md §11). Unset, the count comes from the
    /// `MULTIPUB_SHARDS` environment variable, then from
    /// `available_parallelism()` floored at 2.
    ///
    /// `1` selects the **reference configuration**: one global map,
    /// per-subscriber frame encoding, and frame-at-a-time socket writes
    /// — byte-for-byte the seed broker's data-path cost model, kept for
    /// apples-to-apples benchmarking. Any count ≥ 2 enables the
    /// encode-once zero-copy fan-out and vectored write batching.
    pub fn shards(mut self, count: usize) -> Self {
        self.shards = Some(count);
        self
    }

    /// Sizes the per-publisher dedup window and the per-(client, topic)
    /// unacked-delivery bound for QoS 1 traffic (default
    /// [`DEFAULT_DEDUP_WINDOW`]). A publisher whose unacked backlog
    /// exceeds the window can have old retransmits misclassified as
    /// duplicates, so size it above the largest expected in-flight set.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn dedup_window(mut self, window: usize) -> Self {
        assert!(window > 0, "dedup window must be at least 1");
        self.dedup_window = window;
        self
    }

    /// Enables the retained-message store: a publish with the retain
    /// flag becomes the topic's last value and is replayed to every new
    /// subscriber (an empty retained payload clears it). Off by default.
    pub fn retain(mut self, enabled: bool) -> Self {
        self.retain = enabled;
        self
    }

    /// Binds the listener and spawns the broker's accept loop on the
    /// current tokio runtime.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::Io`] if the listener cannot be bound.
    pub async fn spawn(self) -> Result<Broker, BrokerError> {
        let listener = TcpListener::bind(self.bind).await?;
        let local_addr = listener.local_addr()?;
        let shard_count = resolve_shard_count(self.shards);
        let zero_copy = shard_count > 1;
        let mut flow = self.flow;
        if !zero_copy {
            // Single-shard reference configuration: frame-at-a-time
            // writes, matching the seed broker's syscall profile.
            flow.max_write_batch = 1;
        }
        let mut peer_mask = 1u32 << self.region.0;
        for (region, _) in &self.peers {
            peer_mask |= 1u32 << region.0;
        }
        let shared = Arc::new(Shared {
            region: self.region,
            delays: self.delays,
            peer_addrs: Mutex::new(
                30,
                "broker.peer_addrs",
                self.peers.into_iter().map(|(r, a)| (u16::from(r.0), a)).collect(),
            ),
            peer_mask: AtomicU32::new(peer_mask),
            peer_conns: tokio::sync::Mutex::new(HashMap::new()),
            clients: Mutex::new(40, "broker.clients", HashMap::new()),
            shards: ShardedTopics::new(shard_count),
            zero_copy,
            configs: Mutex::new(50, "broker.configs", HashMap::new()),
            stats: Mutex::new(55, "broker.stats", HashMap::new()),
            next_conn_id: AtomicU64::new(1),
            conn_tasks: Mutex::new(10, "broker.conn_tasks", Vec::new()),
            idle_timeout: self.idle_timeout,
            peer_keepalive: self.peer_keepalive.or_else(|| self.idle_timeout.map(|t| t / 3)),
            flow,
            // An unset budget never trips: `u64::MAX` queued bytes is
            // unreachable before the process dies of something else.
            budget: Arc::new(GlobalBudget::new(self.inflight_budget.unwrap_or(u64::MAX))),
            publish_rate: self.publish_rate,
            qos: QosState::new(self.dedup_window, self.retain),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_task = tokio::spawn(async move {
            loop {
                match listener.accept().await {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&accept_shared);
                        let task = tokio::spawn({
                            let shared = Arc::clone(&shared);
                            async move {
                                // Connection errors only affect that peer.
                                let _ = handle_connection(shared, stream).await;
                            }
                        });
                        let mut tasks = shared.conn_tasks.lock();
                        tasks.retain(|t| !t.is_finished());
                        tasks.push(task);
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(Broker { local_addr, shared, accept_task })
    }
}

/// A running per-region broker. Dropping the handle shuts the broker down.
#[derive(Debug)]
pub struct Broker {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_task: JoinHandle<()>,
}

impl Broker {
    /// Starts building a broker for `region`.
    pub fn builder(region: RegionId) -> BrokerBuilder {
        BrokerBuilder {
            region,
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            peers: Vec::new(),
            delays: DelayTable::none(),
            idle_timeout: None,
            peer_keepalive: None,
            flow: FlowConfig::default(),
            inflight_budget: None,
            publish_rate: None,
            shards: None,
            dedup_window: DEFAULT_DEDUP_WINDOW,
            retain: false,
        }
    }

    /// The address the broker is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The broker's region.
    pub fn region(&self) -> RegionId {
        self.shared.region
    }

    /// Registers (or replaces) a peer broker after startup.
    pub fn add_peer(&self, region: RegionId, addr: SocketAddr) {
        self.shared.peer_addrs.lock().insert(u16::from(region.0), addr);
        self.shared.peer_mask.fetch_or(1u32 << region.0, Ordering::Relaxed);
    }

    /// Number of subscription-map shards on the publish hot path.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.shard_count()
    }

    /// Publishes routed through each shard since startup, indexed by
    /// shard — the per-shard breakdown behind the aggregate
    /// `multipub_broker_shard_publishes_total` counter.
    pub fn shard_publish_counts(&self) -> Vec<u64> {
        self.shared.shards.publish_counts()
    }

    /// Installs a topic configuration locally at `epoch`, exactly as a
    /// (possibly lagging) controller [`Frame::ConfigUpdate`] would,
    /// including the client fan-out: updates carrying an epoch older than
    /// the one in force are rejected and counted in
    /// `multipub_broker_stale_config_updates_total`.
    pub fn install_config_at(&self, topic: &str, mask: u32, mode: WireMode, epoch: u64) {
        apply_config_update(&self.shared, topic, InstalledConfig { mask, mode, epoch });
    }

    /// The topic configuration currently in force (installed or default).
    pub fn config_for(&self, topic: &str) -> InstalledConfig {
        let committed = self.shared.configs.lock().get(topic).and_then(TopicView::committed);
        committed.unwrap_or_else(|| InstalledConfig::unplaced(self.shared.unplaced_mask()))
    }

    /// Snapshots and **clears** the interval statistics — the region
    /// manager's report for the elapsed collection interval.
    pub fn take_report(&self) -> RegionReport {
        take_report(&self.shared)
    }

    /// Current number of connected clients (all roles).
    pub fn client_count(&self) -> usize {
        self.shared.clients.lock().len()
    }

    /// Total bytes currently queued across all outbound connections —
    /// the broker's memory-pressure proxy, charged against the
    /// [`BrokerBuilder::inflight_budget`].
    pub fn queued_bytes(&self) -> u64 {
        self.shared.budget.queued_bytes()
    }

    /// Whether the broker is currently in the `Overloaded` state
    /// (in-flight bytes exceeded the budget and have not yet drained to
    /// the low watermark).
    pub fn is_overloaded(&self) -> bool {
        self.shared.budget.is_overloaded()
    }

    /// Total QoS 1 deliveries currently awaiting a subscriber ack
    /// across every `(client, topic)` buffer.
    pub fn unacked_depth(&self) -> i64 {
        self.shared.qos.unacked_depth()
    }

    /// The topic's retained last-value payload, when retention is
    /// enabled and a publish with the retain flag has been stored.
    pub fn retained_payload(&self, topic: &str) -> Option<Bytes> {
        self.shared.qos.retained(topic).map(|msg| msg.payload)
    }

    /// Shuts the broker down: stops accepting **and severs established
    /// connections**, so connected clients observe the failure promptly
    /// and begin their reconnect/failover path instead of talking to a
    /// zombie. (Dropping the handle does the same.)
    pub fn shutdown(self) {
        self.accept_task.abort();
        kill_connections(&self.shared);
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.accept_task.abort();
        kill_connections(&self.shared);
    }
}

/// Aborts every live connection task and drops every outbound handle the
/// broker holds, closing the sockets so peers see EOF.
fn kill_connections(shared: &Shared) {
    for task in shared.conn_tasks.lock().drain(..) {
        task.abort();
    }
    shared.clients.lock().clear();
    // `try_lock` only fails if a dial is mid-flight; that connection then
    // dies on its own when the remote side notices.
    if let Ok(mut conns) = shared.peer_conns.try_lock() {
        conns.clear();
    }
}

fn take_report(shared: &Shared) -> RegionReport {
    let mut topics: BTreeMap<String, TopicReport> = BTreeMap::new();
    {
        let mut stats = shared.stats.lock();
        for (topic, topic_stats) in stats.drain() {
            topics.entry(topic).or_default().publishers =
                topic_stats.publishers.into_iter().collect();
        }
    }
    // Subscriber ids come straight from the shard entries — no join
    // against the clients map (entries carry the client id).
    for (topic, entries) in shared.shards.topics_snapshot() {
        if entries.is_empty() {
            continue;
        }
        let mut subscriber_ids: Vec<u64> =
            entries.into_iter().map(|(_, entry)| entry.client_id).collect();
        subscriber_ids.sort_unstable();
        subscriber_ids.dedup();
        topics.entry(topic).or_default().subscribers = subscriber_ids;
    }
    RegionReport { region: u16::from(shared.region.0), topics }
}

/// Installs a configuration through the topic's epoch gate. The gate and
/// the write share one `configs` acquisition, so a racing install can
/// never overwrite a newer one.
fn apply_config_update(shared: &Shared, topic: &str, config: InstalledConfig) {
    let installed = shared.with_view(topic, |view| view.install(config));
    match installed {
        Ok(()) => announce_config(shared, topic, config),
        Err(installed_epoch) => {
            multipub_obs::counter!(multipub_obs::metrics::BROKER_STALE_CONFIG_UPDATES_TOTAL).inc();
            multipub_obs::event!(
                Debug,
                "broker",
                msg = "stale config update rejected",
                region = shared.region.0,
                topic = topic,
                epoch = config.epoch,
                installed_epoch = installed_epoch,
            );
        }
    }
}

/// Counts and logs an installed configuration and fans it out to the
/// connected clients.
fn announce_config(shared: &Shared, topic: &str, config: InstalledConfig) {
    let InstalledConfig { mask, mode, epoch } = config;
    multipub_obs::counter!(multipub_obs::metrics::BROKER_CONFIG_UPDATES_TOTAL).inc();
    multipub_obs::event!(
        Debug,
        "broker",
        msg = "config installed",
        region = shared.region.0,
        topic = topic,
        mask = format!("{mask:#b}"),
        mode = format!("{mode:?}"),
        epoch = epoch,
    );
    // Fan the update out to every connected client so publishers and
    // subscribers can re-steer. (The paper narrows this to the clients
    // closest to this region; broadcasting is correct and simpler — remote
    // clients ignore updates for topics they do not use.)
    let update = Frame::ConfigUpdate { topic: topic.to_string(), mask, mode, epoch };
    let clients = shared.clients.lock();
    for client in clients.values() {
        if matches!(client.role, Role::Publisher | Role::Subscriber) {
            client.outbound.send(&update);
        }
    }
}

/// Obtains (establishing on demand) the outbound connection to a peer
/// broker.
async fn peer_outbound(shared: &Arc<Shared>, region: u16) -> Option<Outbound> {
    {
        let conns = shared.peer_conns.lock().await;
        if let Some(out) = conns.get(&region) {
            if out.is_open() {
                return Some(out.clone());
            }
        }
    }
    let addr = *shared.peer_addrs.lock().get(&region)?;
    let stream = TcpStream::connect(addr).await.ok()?;
    let (mut read_half, write_half) = stream.into_split();
    let outbound = Outbound::spawn_with(
        write_half,
        shared.delays.to_region(region),
        shared.flow,
        Some(Arc::clone(&shared.budget)),
    );
    outbound.send(&Frame::Connect {
        client_id: u64::from(shared.region.0),
        role: Role::Peer,
        policy: None,
    });
    // Heartbeat the (otherwise write-only, often quiet) peer link so the
    // remote broker's idle deadline sees traffic while we are healthy.
    if let Some(interval) = shared.peer_keepalive {
        let heartbeat = outbound.clone();
        let task = tokio::spawn(async move {
            let mut nonce = 0u64;
            loop {
                tokio::time::sleep(interval).await;
                nonce = nonce.wrapping_add(1);
                if !heartbeat.send(&Frame::Ping { nonce }) {
                    break;
                }
            }
        });
        shared.conn_tasks.lock().push(task);
    }
    // Drain (and discard) whatever the peer sends on this channel — it is
    // write-mostly, but the ConnectAck must be consumed. Registered with
    // the connection tasks so shutdown severs peer links too.
    let drain = tokio::spawn(async move {
        let mut buf = BytesMut::new();
        while let Ok(Some(_)) = read_frame(&mut read_half, &mut buf).await {}
    });
    shared.conn_tasks.lock().push(drain);
    let mut conns = shared.peer_conns.lock().await;
    conns.insert(region, outbound.clone());
    Some(outbound)
}

fn record_publish(shared: &Shared, topic: &str, publisher: u64, payload_len: usize) {
    let mut stats = shared.stats.lock();
    let entry =
        stats.entry(topic.to_string()).or_default().publishers.entry(publisher).or_default();
    entry.messages += 1;
    entry.bytes += payload_len as u64;
}

#[allow(clippy::too_many_arguments)]
async fn deliver_locally(
    shared: &Shared,
    topic: &str,
    publisher: u64,
    publish_micros: u64,
    headers_json: &str,
    payload: &Bytes,
    trace: Option<TraceContext>,
    qos: u8,
    seq: u64,
) {
    // Count the publish against its shard before the subscriber check:
    // the per-shard counters measure routing pressure, not fan-out.
    shared.shards.note_publish(topic);
    multipub_obs::counter!(multipub_obs::metrics::BROKER_SHARD_PUBLISHES_TOTAL).inc();
    // Snapshot the topic's subscriber set under its shard lock alone —
    // no global map, no clients-map join — then push outside any lock:
    // a `Block`-policy queue may park this task until the consumer
    // drains (never with a `Mutex` guard held across an await).
    let recipients = shared.shards.snapshot(topic);
    if recipients.is_empty() {
        return;
    }
    // Parse the headers once per message, and only when some local
    // subscriber actually filters on content.
    let needs_headers = recipients.iter().any(|(_, entry)| *entry.filter != Predicate::True);
    let headers = if needs_headers && !headers_json.is_empty() {
        Headers::from_json(headers_json).unwrap_or_default()
    } else {
        Headers::new()
    };
    // The `match` stage ends here: snapshot taken, filters about to be
    // applied, encode next. The stamp must land before encoding so it
    // travels inside the encoded bytes; encode + enqueue time therefore
    // accrues to the following `queue` span.
    let trace = trace.map(|mut ctx| {
        if ctx.sampled {
            let now = multipub_obs::trace::now_micros();
            let start = if ctx.admit_micros > 0 { ctx.admit_micros } else { publish_micros };
            multipub_obs::histogram!(multipub_obs::metrics::BROKER_STAGE_MATCH_MS)
                .record(now.saturating_sub(start) as f64 / 1000.0);
            multipub_obs::trace::record_span(multipub_obs::trace::Span {
                trace_id: ctx.trace_id,
                stage: "match",
                start_micros: start,
                dur_micros: now.saturating_sub(start),
            });
            ctx.match_micros = now;
        }
        ctx
    });
    let frame = Frame::Deliver {
        topic: topic.to_string(),
        publisher,
        publish_micros,
        headers: headers_json.to_string(),
        payload: payload.clone(),
        trace,
        qos,
        seq,
        retained: false,
    };
    let targets: Vec<SubEntry> = recipients
        .into_iter()
        .filter(|(_, entry)| entry.filter.matches(&headers))
        .map(|(_, entry)| entry)
        .collect();
    // A QoS 1 delivery to a QoS 1 subscription is tracked **before** the
    // queue push: if the push fails or a slow-consumer policy evicts the
    // subscriber, the entry survives for redelivery on reconnect —
    // eviction means redelivery, not loss.
    let track = |entry: &SubEntry| {
        if qos == 1 && entry.qos == 1 {
            shared.qos.track_unacked(
                entry.client_id,
                topic,
                UnackedDelivery {
                    publisher,
                    seq,
                    publish_micros,
                    headers: headers_json.to_string(),
                    payload: payload.clone(),
                },
            );
        }
    };
    let mut delivered = 0u64;
    if shared.zero_copy {
        // Zero-copy fan-out: encode once, hand every queue a refcounted
        // slice of the same buffer. Queue byte accounting is unchanged
        // (each slice reports the full encoded length).
        let encoded = encode_to_bytes(&frame);
        let mut fanout_bytes = 0u64;
        for entry in &targets {
            track(entry);
            if entry.outbound.send_data_encoded(encoded.clone()).await.queued() {
                delivered += 1;
                fanout_bytes += encoded.len() as u64;
            }
        }
        multipub_obs::gauge!(multipub_obs::metrics::BROKER_FANOUT_BYTES).set(fanout_bytes as i64);
    } else {
        // Reference path (single shard): per-subscriber encode, exactly
        // the seed broker's fan-out cost model.
        for entry in &targets {
            track(entry);
            if entry.outbound.send_data(&frame).await.queued() {
                delivered += 1;
            }
        }
    }
    if qos == 1 {
        multipub_obs::gauge!(multipub_obs::metrics::BROKER_UNACKED_DEPTH)
            .set(shared.qos.unacked_depth());
    }
    if delivered > 0 {
        multipub_obs::counter!(multipub_obs::metrics::BROKER_DELIVERIES_TOTAL).add(delivered);
        multipub_obs::histogram!(multipub_obs::metrics::BROKER_FANOUT_SUBSCRIBERS)
            .record(delivered as f64);
        // Broker-side delivery latency: publisher clock → local fan-out.
        // Publisher and broker clocks agree in local testing; in a real
        // WAN deployment this is subject to clock skew, like any
        // cross-host one-way latency measurement.
        let now = crate::client::now_micros();
        let latency_ms = now.saturating_sub(publish_micros) as f64 / 1000.0;
        for _ in 0..delivered {
            multipub_obs::histogram!(multipub_obs::metrics::BROKER_DELIVERY_MS).record(latency_ms);
        }
    }
}

#[allow(clippy::too_many_arguments)]
async fn handle_publish_from_client(
    shared: &Arc<Shared>,
    topic: String,
    publisher: u64,
    publish_micros: u64,
    single_target: bool,
    headers: String,
    payload: Bytes,
    trace: Option<TraceContext>,
    qos: u8,
    seq: u64,
    retain: bool,
    epoch: u64,
) {
    multipub_obs::counter!(multipub_obs::metrics::BROKER_PUBLISHES_TOTAL).inc();
    if single_target {
        multipub_obs::counter!(multipub_obs::metrics::BROKER_PUBLISH_ROUTED_TOTAL).inc();
    } else {
        multipub_obs::counter!(multipub_obs::metrics::BROKER_PUBLISH_DIRECT_TOTAL).inc();
    }
    record_publish(shared, &topic, publisher, payload.len());
    if retain {
        shared.qos.store_retained(
            &topic,
            RetainedMessage {
                publisher,
                seq,
                qos,
                publish_micros,
                headers: headers.clone(),
                payload: payload.clone(),
            },
        );
    }
    deliver_locally(shared, &topic, publisher, publish_micros, &headers, &payload, trace, qos, seq)
        .await;

    // Forward to the regions the topic's view picks (DESIGN.md §15): the
    // installed configuration, not the publisher's view, decides the
    // serving set, widened to both sides of an active handover.
    // Transient duplicates during a reconfiguration are accepted
    // (at-least-once across config changes); forward frames are never
    // re-forwarded, so the widened set cannot loop.
    let route = {
        let (mut configs, mut unplaced) = (shared.configs.lock(), TopicView::default());
        let view = configs.get_mut(&topic).unwrap_or(&mut unplaced);
        view.route(shared.region, single_target, epoch, shared.unplaced_mask(), Instant::now())
    };
    if route.stale {
        // The publisher steered by a configuration this broker has
        // already superseded — expected during a handover's commit
        // window, and the bridge (not a drop) is what makes the
        // transition lossless.
        multipub_obs::counter!(multipub_obs::metrics::BROKER_STALE_EPOCH_PUBLISHES_TOTAL).inc();
    }
    if route.targets == 0 {
        return;
    }
    // The peer hop inherits the admission stamp; the remote broker's
    // `deliver_locally` restamps `match` on its own clock, so WAN
    // transit accrues to the remote match span (DESIGN.md §12).
    let frame = Frame::Forward {
        topic: topic.clone(),
        publisher,
        publish_micros,
        origin_region: u16::from(shared.region.0),
        headers,
        payload,
        trace,
        qos,
        seq,
        retain,
    };
    // Zero-copy mode shares one encoding across all peer links too;
    // lazily, so a single-region mask never pays for an unused encode.
    let mut encoded: Option<Bytes> = None;
    for region in 0..32u16 {
        let bit = 1u32 << region;
        if route.targets & bit == 0 {
            continue;
        }
        if let Some(outbound) = peer_outbound(shared, region).await {
            let queued = if shared.zero_copy {
                let bytes = encoded.get_or_insert_with(|| encode_to_bytes(&frame)).clone();
                outbound.send_data_encoded(bytes).await.queued()
            } else {
                outbound.send_data(&frame).await.queued()
            };
            if queued {
                multipub_obs::counter!(multipub_obs::metrics::BROKER_FORWARDS_TOTAL).inc();
                if route.bridged & bit != 0 {
                    multipub_obs::counter!(multipub_obs::metrics::BROKER_BRIDGED_FORWARDS_TOTAL)
                        .inc();
                }
            }
        }
    }
}

/// Reads one frame, but gives up after the broker's idle deadline: a
/// connection that stays silent past `idle_timeout` is considered dead
/// and reaped (counted in `multipub_broker_conn_reaped_total`). With no
/// timeout configured this is exactly [`read_frame`].
async fn read_frame_idle(
    shared: &Shared,
    read_half: &mut tokio::net::tcp::OwnedReadHalf,
    buf: &mut BytesMut,
) -> Result<Option<Frame>, BrokerError> {
    match shared.idle_timeout {
        None => read_frame(read_half, buf).await,
        Some(idle) => match tokio::time::timeout(idle, read_frame(read_half, buf)).await {
            Ok(result) => result,
            Err(_) => {
                multipub_obs::counter!(multipub_obs::metrics::BROKER_CONN_REAPED_TOTAL).inc();
                multipub_obs::event!(
                    Warn,
                    "broker",
                    msg = "idle connection reaped",
                    region = shared.region.0,
                    idle_ms = idle.as_millis(),
                );
                Err(BrokerError::Timeout { what: "activity on idle connection" })
            }
        },
    }
}

async fn handle_connection(shared: Arc<Shared>, stream: TcpStream) -> Result<(), BrokerError> {
    stream.set_nodelay(true).ok();
    let (mut read_half, write_half) = stream.into_split();
    let mut buf = BytesMut::new();

    // Handshake — the idle deadline applies from the first byte, so a
    // connection that never even identifies itself cannot linger.
    let (client_id, role, policy) = match read_frame_idle(&shared, &mut read_half, &mut buf).await?
    {
        Some(Frame::Connect { client_id, role, policy }) => (client_id, role, policy),
        Some(_) => return Err(BrokerError::UnexpectedFrame { expected: "Connect" }),
        None => return Ok(()),
    };
    let delay = match role {
        Role::Publisher | Role::Subscriber => shared.delays.to_client(client_id),
        Role::Peer => shared.delays.to_region(client_id as u16),
        Role::Controller => std::time::Duration::ZERO,
    };
    // Only subscribers may pick their own slow-consumer policy; other
    // roles get the broker default.
    let mut flow = shared.flow;
    if role == Role::Subscriber {
        if let Some(policy) = policy {
            flow.policy = policy;
        }
    }
    let outbound = Outbound::spawn_with(write_half, delay, flow, Some(Arc::clone(&shared.budget)));
    outbound.send(&Frame::ConnectAck { region: u16::from(shared.region.0) });
    // Publisher connections get a token bucket when the broker is
    // configured with a publish rate; burst = one second's allowance.
    let mut bucket = match (role, shared.publish_rate) {
        (Role::Publisher, Some(rate)) => Some(TokenBucket::new(rate, rate.max(1.0))),
        _ => None,
    };

    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    multipub_obs::counter!(multipub_obs::metrics::BROKER_CONNECTIONS_TOTAL).inc();
    multipub_obs::gauge!(multipub_obs::metrics::BROKER_CONNECTIONS_ACTIVE).add(1);
    multipub_obs::event!(
        Info,
        "broker",
        msg = "connection opened",
        region = shared.region.0,
        conn_id = conn_id,
        client_id = client_id,
        role = format!("{role:?}"),
    );
    if matches!(role, Role::Publisher | Role::Subscriber) {
        shared
            .clients
            .lock()
            .insert(conn_id, ConnectedClient { client_id, role, outbound: outbound.clone() });
        // Replay the committed configurations so late-joining clients
        // steer correctly from their first operation.
        let configs: Vec<(String, InstalledConfig)> = shared
            .configs
            .lock()
            .iter()
            .filter_map(|(topic, view)| Some((topic.clone(), view.committed()?)))
            .collect();
        for (topic, config) in configs {
            outbound.send(&Frame::ConfigUpdate {
                topic,
                mask: config.mask,
                mode: config.mode,
                epoch: config.epoch,
            });
        }
    }

    let result = connection_loop(
        &shared,
        conn_id,
        client_id,
        role,
        &mut read_half,
        &mut buf,
        &outbound,
        &mut bucket,
    )
    .await;

    // Unregister.
    if matches!(role, Role::Publisher | Role::Subscriber) {
        shared.clients.lock().remove(&conn_id);
        shared.shards.remove_conn(conn_id);
    }
    multipub_obs::gauge!(multipub_obs::metrics::BROKER_CONNECTIONS_ACTIVE).sub(1);
    multipub_obs::event!(
        Debug,
        "broker",
        msg = "connection closed",
        region = shared.region.0,
        conn_id = conn_id,
        clean = result.is_ok(),
    );
    result
}

#[allow(clippy::too_many_arguments)]
async fn connection_loop(
    shared: &Arc<Shared>,
    conn_id: u64,
    client_id: u64,
    role: Role,
    read_half: &mut tokio::net::tcp::OwnedReadHalf,
    buf: &mut BytesMut,
    outbound: &Outbound,
    bucket: &mut Option<TokenBucket>,
) -> Result<(), BrokerError> {
    while let Some(frame) = read_frame_idle(shared, read_half, buf).await? {
        match frame {
            Frame::Subscribe { topic, filter, qos } => {
                // An unparseable filter falls back to match-all: the
                // client library validates before sending, so this only
                // triggers for foreign clients — better to over-deliver
                // than to silently drop a subscription.
                let predicate = if filter.is_empty() {
                    Predicate::True
                } else {
                    Predicate::parse(&filter).unwrap_or(Predicate::True)
                };
                let predicate = Arc::new(predicate);
                multipub_obs::counter!(multipub_obs::metrics::BROKER_SUBSCRIBES_TOTAL).inc();
                shared.shards.insert(
                    &topic,
                    conn_id,
                    SubEntry {
                        client_id,
                        filter: Arc::clone(&predicate),
                        qos,
                        outbound: outbound.clone(),
                    },
                );
                // Retained last value first, so a late subscriber's
                // snapshot precedes any live deliveries on this
                // subscription (market-data pattern, DESIGN.md §13).
                if let Some(msg) = shared.qos.retained(&topic) {
                    let matches = if *predicate == Predicate::True {
                        true
                    } else {
                        let headers = if msg.headers.is_empty() {
                            Headers::new()
                        } else {
                            Headers::from_json(&msg.headers).unwrap_or_default()
                        };
                        predicate.matches(&headers)
                    };
                    if matches {
                        let replay = Frame::Deliver {
                            topic: topic.clone(),
                            publisher: msg.publisher,
                            publish_micros: msg.publish_micros,
                            headers: msg.headers,
                            payload: msg.payload,
                            trace: None,
                            qos: msg.qos,
                            seq: msg.seq,
                            retained: true,
                        };
                        if outbound.send_data(&replay).await.queued() {
                            multipub_obs::counter!(
                                multipub_obs::metrics::BROKER_RETAINED_REPLAYS_TOTAL
                            )
                            .inc();
                        }
                    }
                }
                // A QoS 1 (re)subscribe replays every delivery this
                // client never acked — a slow-consumer eviction or a
                // dropped connection means redelivery, not loss. Entries
                // stay tracked until the subscriber's DeliverAck.
                if qos == 1 {
                    for unacked in shared.qos.unacked_snapshot(client_id, &topic) {
                        let redelivery = Frame::Deliver {
                            topic: topic.clone(),
                            publisher: unacked.publisher,
                            publish_micros: unacked.publish_micros,
                            headers: unacked.headers,
                            payload: unacked.payload,
                            trace: None,
                            qos: 1,
                            seq: unacked.seq,
                            retained: false,
                        };
                        if outbound.send_data(&redelivery).await.queued() {
                            multipub_obs::counter!(
                                multipub_obs::metrics::BROKER_REDELIVERIES_TOTAL
                            )
                            .inc();
                        }
                    }
                }
            }
            Frame::Unsubscribe { topic } => {
                shared.shards.remove(&topic, conn_id);
            }
            Frame::Publish {
                topic,
                publisher,
                publish_micros,
                single_target,
                headers,
                payload,
                trace,
                qos,
                seq,
                retain,
                epoch,
            } => {
                // Admission control (DESIGN.md §10): shed load with an
                // explicit NACK instead of queueing into an overloaded
                // broker. The overload check precedes the token bucket so
                // a global trip does not also burn the publisher's tokens.
                let retry_after_ms = if shared.budget.is_overloaded() {
                    Some(DEFAULT_BUSY_RETRY_MS)
                } else {
                    match bucket.as_mut() {
                        Some(bucket) if !bucket.try_acquire() => {
                            Some(bucket.retry_after_ms().max(1))
                        }
                        _ => None,
                    }
                };
                if let Some(retry_after_ms) = retry_after_ms {
                    multipub_obs::counter!(multipub_obs::metrics::BROKER_BUSY_REJECTIONS_TOTAL)
                        .inc();
                    multipub_obs::event!(
                        Debug,
                        "broker",
                        msg = "publish refused busy",
                        region = shared.region.0,
                        conn_id = conn_id,
                        topic = topic,
                        retry_after_ms = retry_after_ms,
                    );
                    outbound.send(&Frame::Busy { topic, retry_after_ms, seq });
                    continue;
                }
                // Dedup runs **after** admission so a Busy-shed publish
                // is never recorded as seen (its retransmit must fan
                // out, not be swallowed as a duplicate). A retransmit of
                // an already-accepted QoS 1 publish is re-acked without
                // re-fanning out — retransmits are idempotent.
                if qos == 1 && !shared.qos.observe(publisher, seq) {
                    multipub_obs::counter!(multipub_obs::metrics::BROKER_DEDUP_HITS_TOTAL).inc();
                    outbound.send(&Frame::PubAck { topic, seq });
                    continue;
                }
                // Admission passed: stamp the `admission` stage on
                // sampled messages. The span starts at the publisher's
                // own stamp, so it includes client→broker network
                // transit — the trace's five spans sum exactly to the
                // end-to-end trip time.
                let trace = trace.map(|mut ctx| {
                    if ctx.sampled {
                        let now = multipub_obs::trace::now_micros();
                        multipub_obs::histogram!(multipub_obs::metrics::BROKER_STAGE_ADMISSION_MS)
                            .record(now.saturating_sub(publish_micros) as f64 / 1000.0);
                        multipub_obs::trace::record_span(multipub_obs::trace::Span {
                            trace_id: ctx.trace_id,
                            stage: "admission",
                            start_micros: publish_micros,
                            dur_micros: now.saturating_sub(publish_micros),
                        });
                        ctx.admit_micros = now;
                    }
                    ctx
                });
                let ack_topic = if qos == 1 { Some(topic.clone()) } else { None };
                handle_publish_from_client(
                    shared,
                    topic,
                    publisher,
                    publish_micros,
                    single_target,
                    headers,
                    payload,
                    trace,
                    qos,
                    seq,
                    retain,
                    epoch,
                )
                .await;
                // Ack after the local fan-out and peer forwards have
                // been queued: the publisher stops retransmitting `seq`.
                // Under direct delivery every serving region acks; the
                // first PubAck clears the entry (at-least-once).
                if let Some(topic) = ack_topic {
                    outbound.send(&Frame::PubAck { topic, seq });
                }
            }
            Frame::Forward {
                topic,
                publisher,
                publish_micros,
                headers,
                payload,
                trace,
                qos,
                seq,
                retain,
                ..
            } => {
                // Second hop of routed delivery: local fan-out only.
                // Dedup is keyed on the **origin publisher**, so a
                // duplicate arriving over a different mesh path (or a
                // retransmitted first hop re-forwarded by its ingress
                // region) cannot double-deliver.
                if qos == 1 && !shared.qos.observe(publisher, seq) {
                    multipub_obs::counter!(multipub_obs::metrics::BROKER_DEDUP_HITS_TOTAL).inc();
                    continue;
                }
                if retain {
                    shared.qos.store_retained(
                        &topic,
                        RetainedMessage {
                            publisher,
                            seq,
                            qos,
                            publish_micros,
                            headers: headers.clone(),
                            payload: payload.clone(),
                        },
                    );
                }
                deliver_locally(
                    shared,
                    &topic,
                    publisher,
                    publish_micros,
                    &headers,
                    &payload,
                    trace,
                    qos,
                    seq,
                )
                .await;
            }
            Frame::DeliverAck { topic, publisher, seq } => {
                // Subscriber acked a QoS 1 delivery: trim it from the
                // unacked buffer so it is not redelivered on reconnect.
                shared.qos.ack(client_id, &topic, publisher, seq);
                multipub_obs::gauge!(multipub_obs::metrics::BROKER_UNACKED_DEPTH)
                    .set(shared.qos.unacked_depth());
            }
            Frame::StatsRequest => {
                let report = take_report(shared);
                // Serialization of a plain data struct cannot realistically
                // fail, but a broker must never die over a stats request.
                match serde_json::to_string(&report) {
                    Ok(json) => {
                        outbound.send(&Frame::StatsReport { json });
                    }
                    Err(e) => {
                        multipub_obs::event!(
                            Warn,
                            "broker",
                            msg = "report serialization failed",
                            error = e,
                        );
                    }
                }
            }
            Frame::StatsSnapshotRequest => {
                // In-band metrics pull: the whole process-wide registry,
                // as the hand-rolled HTTP endpoint would serve it.
                let json = multipub_obs::registry().render_json();
                outbound.send(&Frame::StatsSnapshot { json });
            }
            Frame::ConfigUpdate { topic, mask, mode, epoch } => {
                if matches!(role, Role::Controller) {
                    apply_config_update(shared, &topic, InstalledConfig { mask, mode, epoch });
                }
            }
            Frame::HandoverPrepare { topic, mask, mode, epoch } => {
                // Phase one of a make-before-break handover: record the
                // pending configuration (invisible to clients) so the
                // publish path starts bridging to the union of the old
                // and new serving sets. Stale prepares are ignored but
                // still acked — replays must stay idempotent.
                if matches!(role, Role::Controller) {
                    let pending = InstalledConfig { mask, mode, epoch };
                    if shared
                        .with_view(&topic, |view| view.prepare(pending, shared.unplaced_mask()))
                    {
                        multipub_obs::event!(
                            Debug,
                            "broker",
                            msg = "handover prepared",
                            region = shared.region.0,
                            topic = topic,
                            mask = format!("{mask:#b}"),
                            epoch = epoch,
                        );
                    }
                    outbound.send(&Frame::HandoverAck { topic, epoch, phase: 0 });
                }
            }
            Frame::HandoverCommit { topic, epoch, grace_ms } => {
                // Phase two: promote the pending configuration to
                // committed (fanning the new epoch to clients so they
                // re-steer) and keep the handover entry for a bounded
                // drain window, during which stragglers steering by the
                // old epoch are still bridged.
                if matches!(role, Role::Controller) {
                    let drain_until = Instant::now() + Duration::from_millis(u64::from(grace_ms));
                    if let Some(config) =
                        shared.with_view(&topic, |view| view.commit(epoch, drain_until))
                    {
                        announce_config(shared, &topic, config);
                        multipub_obs::event!(
                            Debug,
                            "broker",
                            msg = "handover committed",
                            region = shared.region.0,
                            topic = topic,
                            epoch = epoch,
                            grace_ms = grace_ms,
                        );
                    }
                    outbound.send(&Frame::HandoverAck { topic, epoch, phase: 1 });
                }
            }
            Frame::HandoverAbort { topic, epoch } => {
                // A participant died or timed out during prepare:
                // discard the pending epoch and fall back to the last
                // committed configuration. A handover already committed
                // (draining) is past the point of no return and keeps
                // its drain window.
                if matches!(role, Role::Controller) {
                    if shared.with_view(&topic, |view| view.abort(epoch)) {
                        multipub_obs::event!(
                            Info,
                            "broker",
                            msg = "handover aborted",
                            region = shared.region.0,
                            topic = topic,
                            epoch = epoch,
                        );
                    }
                    outbound.send(&Frame::HandoverAck { topic, epoch, phase: 2 });
                }
            }
            Frame::Ping { nonce } => {
                outbound.send(&Frame::Pong { nonce });
            }
            // Frames a broker never expects inbound are ignored rather
            // than fatal: forward compatibility over strictness.
            Frame::Connect { .. }
            | Frame::ConnectAck { .. }
            | Frame::Deliver { .. }
            | Frame::StatsReport { .. }
            | Frame::StatsSnapshot { .. }
            | Frame::Busy { .. }
            | Frame::PubAck { .. }
            | Frame::HandoverAck { .. }
            | Frame::Pong { .. } => {}
        }
    }
    Ok(())
}
